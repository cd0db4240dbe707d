#pragma once
// Wide-lane words for the bit-parallel batch backend (ROADMAP item 1: widen
// the word). A BatchProgram packs one macro per BIT; the interpreter's state
// vectors are flat arrays of 64-bit words, and every per-cycle operation is
// a pure bitwise map over them — so the execution width is a free parameter:
// stepping 256 or 512 lanes per operation instead of 64 changes wall-clock
// only, never a single ReportEvent.
//
// Three layers keep that guarantee checkable:
//
//  * LaneWord<W> — the PORTABLE W-bit lane word: an array of W/64 uint64_t
//    with bitwise ops written as fixed-trip loops any compiler can unroll
//    (and, with vector flags, auto-vectorize). It defines the semantics;
//    it is always available, on every architecture.
//  * LaneKernels — the two hot per-cycle loops (packed-row OR and the
//    bit-sliced counter update) behind function pointers, so AVX2 / AVX-512
//    translation units compiled with their own target flags can supply
//    intrinsic versions of the SAME bitwise dataflow.
//  * resolve_lane_kernels() — runtime dispatch: an explicit width is always
//    honored (the SIMD variant when the CPU + build support it, the
//    portable LaneWord variant otherwise); kAuto picks the widest
//    SIMD-backed width, falling back to the classic 64-bit scalar path.
//    APSS_DISABLE_SIMD=1 in the environment forces the portable variants
//    everywhere — the knob CI uses to keep the non-x86 code paths green.
//
// Lane layout is width-agnostic: lane l always lives at 64-bit word l/64,
// bit l%64. A wider word just processes W/64 consecutive words per
// operation, so programs (and their on-disk artifacts, docs/ARTIFACTS.md)
// never depend on the width they will run at.

#include <cstddef>
#include <cstdint>

namespace apss::apsim {

/// 64-bit words per 512-bit block — the alignment quantum BatchProgram pads
/// its packed row table to, so every resolved width divides the storage.
inline constexpr std::size_t kLaneBlockWords = 8;

/// Requested lane-word width for BatchSimulator execution.
enum class LaneWidth : std::uint16_t {
  kAuto = 0,  ///< widest SIMD-backed width; 64-bit scalar when none
  k64 = 64,   ///< the classic one-word scalar path
  k256 = 256,  ///< four words per step (AVX2 when available)
  k512 = 512,  ///< eight words per step (AVX-512 when available)
};

const char* to_string(LaneWidth width) noexcept;

/// The portable W-bit lane word: W/64 little-endian 64-bit limbs, lane
/// (w * 64 + b) at limb w bit b — the same layout BatchProgram packs its
/// rows in, so loads are plain memcpy-like reads. All ops are bitwise and
/// lane-local; the fixed-size loops vectorize under -O2 on any target.
template <std::size_t W>
struct LaneWord {
  static_assert(W == 64 || W == 256 || W == 512, "unsupported lane width");
  static constexpr std::size_t kWords = W / 64;

  std::uint64_t limb[kWords];

  static LaneWord load(const std::uint64_t* p) noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = p[i];
    }
    return v;
  }
  void store(std::uint64_t* p) const noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      p[i] = limb[i];
    }
  }
  static LaneWord zero() noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = 0;
    }
    return v;
  }
  friend LaneWord operator|(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] |= b.limb[i];
    }
    return a;
  }
  friend LaneWord operator&(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] &= b.limb[i];
    }
    return a;
  }
  friend LaneWord operator^(LaneWord a, const LaneWord& b) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      a.limb[i] ^= b.limb[i];
    }
    return a;
  }
  /// *this & ~mask (the counter reset / pulse edge op).
  LaneWord andnot(const LaneWord& mask) const noexcept {
    LaneWord v;
    for (std::size_t i = 0; i < kWords; ++i) {
      v.limb[i] = limb[i] & ~mask.limb[i];
    }
    return v;
  }
  bool any() const noexcept {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      acc |= limb[i];
    }
    return acc != 0;
  }
};

/// Everything one bit-sliced counter update needs (one call per cycle):
/// the per-lane arrays all hold `words` 64-bit words (a multiple of the
/// kernel's block size, zero-padded past the live lanes), and `planes`
/// holds plane_count rows of `words` words each (plane q at planes + q *
/// words). See BatchSimulator::step for the dataflow this implements.
struct LaneCounterCtx {
  std::uint64_t* ring = nullptr;     ///< in: collector roots; out: match word
  const std::uint64_t* scratch = nullptr;  ///< this cycle's packed match word
  std::uint64_t* planes = nullptr;         ///< bit-sliced counts
  std::uint64_t* cond_prev = nullptr;  ///< >= threshold condition last cycle
  std::uint64_t* pulse = nullptr;      ///< out: counter pulse next cycle
  const std::uint64_t* valid = nullptr;  ///< live-lane masks (0 in padding)
  std::size_t words = 0;
  std::uint32_t plane_count = 0;
  std::uint32_t cond_plane = 0;
  std::uint64_t bias = 0;  ///< counter reload value (2^P - threshold)
  bool sort_now = false;   ///< uniform count enable this cycle
  bool eof_now = false;    ///< uniform counter reset this cycle
};

/// The resolved execution strategy: a width plus the two hot-loop kernels.
/// Value-semantic and immutable after resolution; share freely.
struct LaneKernels {
  LaneWidth width = LaneWidth::k64;  ///< resolved width, never kAuto
  bool simd = false;                 ///< vector-ISA backed (vs portable)
  const char* isa = "scalar";        ///< scalar | portable | avx2 | avx512
  /// dst |= src over `words` words (both block-aligned and padded).
  void (*or_rows)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t words) = nullptr;
  void (*counter_update)(const LaneCounterCtx& ctx) = nullptr;

  std::size_t width_bits() const noexcept {
    return static_cast<std::size_t>(width);
  }
  std::size_t block_words() const noexcept { return width_bits() / 64; }
};

/// Lanes per block of the closed-form frame path's lane-major table.
inline constexpr std::size_t kMatchBlockLanes = 8;

/// Per-lane match counts for the closed-form frame path (see
/// BatchSimulator::run_continue). Every lane has a row of `row_words`
/// words; rows are stored in blocks of kMatchBlockLanes lanes, word k of
/// lane l at lane_bits[((l / 8) * row_words + k) * 8 + l % 8], so one
/// 512-bit load holds word k of a whole block. counts[l] = the sum over k
/// of popcount(word k of lane l & query[k]), for `blocks` blocks (lanes
/// rounded up to a whole block; pad lanes have zero rows), and
/// block_max[b] = the largest counts[l] of block b's lanes. Independent of
/// the execution lane width.
using LaneMatchCounts = void (*)(const std::uint64_t* lane_bits,
                                 const std::uint64_t* query,
                                 std::size_t row_words, std::size_t blocks,
                                 std::uint32_t* counts,
                                 std::uint32_t* block_max);

/// The same counts for a program with at most two match classes, from one
/// row per lane (its class-0 bits) in the LaneMatchCounts layout:
/// counts[l] = base - the sum over k of popcount((word k of lane l ^
/// query[k]) & exact[k]) for the `lanes` live lanes, 0 for the pad lanes of
/// a partial last block, and block_max[b] = the largest count of block b.
/// `query` is class 0's query mask, `exact` marks the dimensions whose data
/// symbol exactly one class accepts, and base counts those some class
/// accepts, so base >= the popcount of `exact` and no count wraps.
using TwoClassMatchCounts = void (*)(const std::uint64_t* lane_bits,
                                     const std::uint64_t* query,
                                     const std::uint64_t* exact,
                                     std::uint32_t base,
                                     std::size_t row_words, std::size_t lanes,
                                     std::uint32_t* counts,
                                     std::uint32_t* block_max);

/// One build of both match-count kernels; BatchSimulator calls the one its
/// program's class count selects.
struct MatchCountKernels {
  LaneMatchCounts multi_class = nullptr;
  TwoClassMatchCounts two_class = nullptr;
  const char* isa = "portable";  ///< avx512-vpopcntdq | popcnt | portable
};

/// The AVX-512 VPOPCNTDQ build, else the hardware-POPCNT one, when the CPU
/// has it and APSS_DISABLE_SIMD is unset; else the portable bit count (all
/// bit-identical).
MatchCountKernels resolve_match_counts() noexcept;

/// True when the environment variable APSS_DISABLE_SIMD is set to anything
/// but "" or "0" — the portable-fallback override (read on every resolve,
/// so tests can flip it between simulator constructions).
bool lane_simd_disabled_by_env() noexcept;

/// Runtime CPU feature checks (false on non-x86 builds).
bool cpu_supports_avx2() noexcept;
bool cpu_supports_avx512() noexcept;

/// Resolves `requested` to concrete kernels. Explicit widths are always
/// honored: the SIMD variant when compiled in AND supported by this CPU
/// AND not disabled by APSS_DISABLE_SIMD, else the portable LaneWord
/// variant of the same width (bit-identical, just slower). kAuto returns
/// the widest SIMD-backed width, or the 64-bit scalar path when none.
LaneKernels resolve_lane_kernels(LaneWidth requested = LaneWidth::kAuto);

namespace detail {
/// SIMD kernel registries, defined in lane_kernels_{avx2,avx512}.cpp.
/// Null when the translation unit was built without its target flags
/// (non-x86, or a compiler without -mavx2 / -mavx512f).
const LaneKernels* avx2_lane_kernels() noexcept;
const LaneKernels* avx512_lane_kernels() noexcept;
/// The VPOPCNTDQ match-count kernels; null when not compiled in. The caller
/// checks the CPU for avx512vpopcntdq first.
const MatchCountKernels* avx512_match_counts() noexcept;
/// The hardware-POPCNT build of the portable kernels; null off x86. The
/// caller checks the CPU for popcnt first.
const MatchCountKernels* popcnt_match_counts() noexcept;
}  // namespace detail

}  // namespace apss::apsim
