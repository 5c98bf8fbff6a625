#ifndef RELMAX_SAMPLING_BITLANE_H_
#define RELMAX_SAMPLING_BITLANE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>

#include "common/logging.h"

namespace relmax {
namespace bitlane {

/// Words per lane block: 8 × 64 bits = 512 bits = one 64-byte cache line.
/// Matrix rows are padded to whole blocks, so a block never straddles a
/// cache line, and a lane block is the unit a flood's, a fill's or a
/// streamed run's world range is cut in.
inline constexpr size_t kLaneWords = 8;
inline constexpr size_t kLaneBytes = kLaneWords * sizeof(uint64_t);

/// Which word step the world fixpoint runs. The result bits are identical
/// either way — the fixpoint of the monotone word algebra
/// (`reach[v] |= reach[u] & up[e]`) is unique regardless of evaluation
/// order — which the conformance sweeps pin. The knob exists so tests can
/// compare the default step against its early-exit reference.
enum class LaneMode {
  kAuto,        ///< resolve to kBranchFree
  kScalar,      ///< PropagateWordsScalar: early exit per word (reference)
  kBranchFree,  ///< PropagateWords: no branch on a word's outcome
};

/// Process-wide kernel selection. Mode() resolves kAuto to kBranchFree.
LaneMode Mode();
void SetMode(LaneMode mode);
const char* ModeName(LaneMode mode);

/// RAII lane-mode override for tests.
class ScopedLaneMode {
 public:
  explicit ScopedLaneMode(LaneMode mode) : saved_(Mode()) { SetMode(mode); }
  ~ScopedLaneMode() { SetMode(saved_); }
  ScopedLaneMode(const ScopedLaneMode&) = delete;
  ScopedLaneMode& operator=(const ScopedLaneMode&) = delete;

 private:
  LaneMode saved_;
};

/// One propagation step over the words a dirty mask names: for each set bit
/// i of `dirty`, word w = base + i gets `dst[w] |= src[w] & up[w]`. Returns
/// the words that gained bits, as a mask over the same bit positions.
/// Which words gain is data-dependent and close to random, so the step
/// never branches on it; `__restrict` holds because a propagation step
/// never runs on a self-loop (src and dst are distinct rows) and `up` lives
/// in a different matrix than either.
inline uint64_t PropagateWords(uint64_t dirty, const uint64_t* __restrict src,
                               const uint64_t* __restrict up,
                               uint64_t* __restrict dst, size_t base) {
  uint64_t gained = 0;
  while (dirty != 0) {
    const int i = __builtin_ctzll(dirty);
    dirty &= dirty - 1;
    const size_t w = base + static_cast<size_t>(i);
    const uint64_t add = src[w] & up[w] & ~dst[w];
    dst[w] |= add;
    gained |= static_cast<uint64_t>(add != 0) << i;
  }
  return gained;
}

/// Reference for the same step: per-word early exit, storing only the words
/// that gain. Must compute exactly the same bits and mask as PropagateWords
/// (pinned by the lane-mode conformance axis in the tests).
inline uint64_t PropagateWordsScalar(uint64_t dirty, const uint64_t* src,
                                     const uint64_t* up, uint64_t* dst,
                                     size_t base) {
  uint64_t gained = 0;
  while (dirty != 0) {
    const int i = __builtin_ctzll(dirty);
    dirty &= dirty - 1;
    const size_t w = base + static_cast<size_t>(i);
    const uint64_t add = src[w] & up[w] & ~dst[w];
    if (add != 0) {
      dst[w] |= add;
      gained |= uint64_t{1} << i;
    }
  }
  return gained;
}

/// Dense rows × words bit matrix in one flat, 64-byte-aligned allocation —
/// the storage behind the WorldBank's edge rows and every flood's reach
/// scratch. Each row is padded to a whole number of lane blocks
/// (stride_words()), so every row starts on a cache line and a range of
/// whole blocks needs no tail case. Padding words are zero at allocation
/// and must stay zero: bank rows never set them, and the fixpoint relaxes
/// only logical words.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t words) { EnsureShape(rows, words); }

  /// An empty matrix whose every allocation (EnsureShape) is mapped straight
  /// from the OS instead of taken from malloc: its pages arrive zeroed and
  /// go back to the OS the moment they are freed or reshaped. For matrices
  /// that come and go on many threads, such as flood scratch, where
  /// malloc's per-thread arenas kept the freed pages of every shape a
  /// thread had held, so resident memory followed the allocation history
  /// instead of the live matrices. A fresh mapping faults its pages in on
  /// first touch, so long-lived or reused matrices are no slower, but a
  /// matrix allocated per call pays for it.
  static BitMatrix Mapped() {
    BitMatrix m;
    m.mapped_ = true;
    return m;
  }

  BitMatrix(BitMatrix&&) = default;
  BitMatrix& operator=(BitMatrix&&) = default;
  BitMatrix(const BitMatrix&) = delete;
  BitMatrix& operator=(const BitMatrix&) = delete;

  /// Wraps an externally owned buffer as a rows × words matrix **without
  /// copying or taking ownership** — the zero-copy path for mmap-ed index
  /// sections (index/index_io.h). `data` must be 64-byte aligned and hold
  /// `rows` rows of stride_words() (lane-padded) words each, with tail and
  /// pad bits zero — exactly the layout an owned matrix allocates. The
  /// caller keeps the buffer alive for the matrix's lifetime and must not
  /// write through the matrix if the buffer is read-only (a PROT_READ
  /// mapping faults loudly on write, never silently corrupts).
  static BitMatrix External(uint64_t* data, size_t rows, size_t words) {
    RELMAX_CHECK((reinterpret_cast<uintptr_t>(data) % kLaneBytes) == 0);
    BitMatrix m;
    m.rows_ = rows;
    m.words_ = words;
    m.stride_ = StrideWords(words);
    m.data_ = DataPtr(data, Deleter{Storage::kExternal, 0});
    return m;
  }

  /// Reallocates (zero-filled) when the logical shape differs from the
  /// current one and returns true; returns false with contents untouched
  /// when the shape already matches. Mirrors the reuse contract of the
  /// fixpoint scratch: a shape-matched buffer keeps its bits unless the
  /// caller (or SeedPolicy::kClearScratch) wipes it.
  bool EnsureShape(size_t rows, size_t words) {
    if (rows == rows_ && words == words_ && data_ != nullptr) return false;
    rows_ = rows;
    words_ = words;
    stride_ = StrideWords(words);
    // Free the old buffer first, so a reshape never holds both. The new
    // DataPtr carries its own deleter, so a matrix that wrapped an external
    // buffer owns the one it gets here.
    data_.reset();
    data_ = Allocate(rows_ * stride_ * sizeof(uint64_t), mapped_);
    return true;
  }

  /// Zeroes every bit (rows, pads and all); shape is unchanged.
  void Clear() {
    if (data_ != nullptr) {
      std::memset(data_.get(), 0, rows_ * stride_ * sizeof(uint64_t));
    }
  }

  uint64_t* row(size_t r) {
    RELMAX_DCHECK(r < rows_);
    return data_.get() + r * stride_;
  }
  const uint64_t* row(size_t r) const {
    RELMAX_DCHECK(r < rows_);
    return data_.get() + r * stride_;
  }
  /// The row's logical words (pad excluded).
  std::span<const uint64_t> row_span(size_t r) const {
    return {row(r), words_};
  }

  size_t rows() const { return rows_; }
  /// Logical words per row (ceil(bits / 64) as sized by the caller).
  size_t words() const { return words_; }
  /// Allocated words per row: words() rounded up to whole lane blocks.
  size_t stride_words() const { return stride_; }
  /// The stride of a matrix with `words` logical words per row.
  static size_t StrideWords(size_t words) {
    return (words + kLaneWords - 1) / kLaneWords * kLaneWords;
  }
  size_t blocks_per_row() const { return stride_ / kLaneWords; }
  bool empty() const { return data_ == nullptr; }

 private:
  enum class Storage {
    kHeap,      ///< aligned operator new
    kMapped,    ///< an anonymous OS mapping of `bytes`
    kExternal,  ///< an External() buffer someone else owns
  };
  struct Deleter {
    // No default member initializer: an NSDMI would be parsed in the
    // complete-class context of BitMatrix, leaving Deleter (and thus
    // DataPtr) not default-constructible inside the class body.
    constexpr Deleter() : storage(Storage::kHeap), bytes(0) {}
    constexpr Deleter(Storage s, size_t b) : storage(s), bytes(b) {}
    Storage storage;
    size_t bytes;
    void operator()(uint64_t* p) const;
  };
  using DataPtr = std::unique_ptr<uint64_t[], Deleter>;

  // `bytes` of zeroed, lane-aligned storage, an OS mapping if `mapped`.
  static DataPtr Allocate(size_t bytes, bool mapped);

  size_t rows_ = 0;
  size_t words_ = 0;
  size_t stride_ = 0;
  bool mapped_ = false;  // see Mapped()
  DataPtr data_;
};

}  // namespace bitlane
}  // namespace relmax

#endif  // RELMAX_SAMPLING_BITLANE_H_
