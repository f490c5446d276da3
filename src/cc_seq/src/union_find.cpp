#include "histcc/cc_seq/union_find.hpp"

#include <algorithm>
#include <bit>

namespace histcc::ccseq {
namespace {

constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
constexpr std::uint64_t kHigh = 0x8080808080808080ULL;

/// The 8 bytes at p as one word, byte k in bits [8k, 8k + 8) on any host
/// (compilers turn this into a single load).
std::uint64_t load8(const std::uint8_t* p) noexcept {
  using W = std::uint64_t;
  return W{p[0]} | W{p[1]} << 8 | W{p[2]} << 16 | W{p[3]} << 24 |
         W{p[4]} << 32 | W{p[5]} << 40 | W{p[6]} << 48 | W{p[7]} << 56;
}

/// The n < 8 bytes at p, zero-padded to a word.
std::uint64_t load_tail(const std::uint8_t* p, std::uint32_t n) noexcept {
  std::uint8_t buf[8] = {};
  std::copy_n(p, n, buf);
  return load8(buf);
}

/// Bit k set iff byte k of x is nonzero (SWAR: the add carries into each
/// byte's top bit from its low 7 bits, the or adds the top bit itself;
/// the multiply gathers the 8 top bits into the last byte).
std::uint64_t nonzero_bits(std::uint64_t x) noexcept {
  const std::uint64_t top = (((x & kLow7) + kLow7) | x) & kHigh;
  return ((top >> 7) * 0x0102040810204080ULL) >> 56;
}

/// Mask of the lowest n bits, n in [1, 64].
std::uint64_t low_bits(std::uint32_t n) noexcept {
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// Start and foreground masks of one row, 64 pixels per word.  A run
/// starts where a foreground pixel follows background (binary rule) or
/// follows any other value (same-colour rule).
template <bool kSameColour>
void row_masks(const std::uint8_t* row, std::uint32_t cols,
               std::uint64_t* starts, std::uint64_t* fg) noexcept {
  std::uint64_t carry = 0;  // last foreground bit / last byte so far
  for (std::uint32_t base = 0, w = 0; base < cols; base += 64, ++w) {
    std::uint64_t f = 0;
    std::uint64_t d = 0;  // same-colour: pixel differs from its left one
    const auto group = [&](std::uint64_t x, std::uint32_t g) {
      f |= nonzero_bits(x) << g;
      if constexpr (kSameColour) {
        d |= nonzero_bits(x ^ ((x << 8) | carry)) << g;
        carry = x >> 56;
      }
    };
    if (base + 64 <= cols) {
      for (std::uint32_t g = 0; g < 64; g += 8) group(load8(row + base + g), g);
    } else {
      for (std::uint32_t g = 0; base + g < cols; g += 8) {
        const std::uint32_t o = base + g;
        group(o + 8 <= cols ? load8(row + o) : load_tail(row + o, cols - o), g);
      }
    }
    if constexpr (kSameColour) {
      starts[w] = f & d;
    } else {
      starts[w] = f & ~((f << 1) | carry);
      carry = f >> 63;
    }
    fg[w] = f;
  }
}

}  // namespace

void TileRuns::scan(std::span<const std::uint8_t> pixels, std::uint32_t rows,
                    std::uint32_t cols, Connectivity conn, ColourRule rule,
                    std::span<std::uint32_t> storage) {
  img::require_labelable(rows, cols);  // run indices are 32-bit
  const std::size_t count_px = static_cast<std::size_t>(rows) * cols;
  HISTCC_REQUIRE(pixels.size() >= count_px, "tile spans too small");
  HISTCC_REQUIRE(storage.size() >= count_px,
                 "lent run storage smaller than the tile");
  pixels_ = pixels;
  rows_ = rows;
  cols_ = cols;
  same_colour_ = rule == ColourRule::kSameColour;
  const std::size_t words = (static_cast<std::size_t>(cols) + 63) / 64;
  start_bits_.assign(words + 1, 0);
  fg_bits_.assign(words + 1, 0);
  for (auto* v : {&starts_, &ends_, &prev_starts_, &prev_ends_}) {
    v->resize(cols);
  }
  row_labels_.assign(static_cast<std::size_t>(cols) + 1, 0);
  run_ = storage;
  row_first_.assign(static_cast<std::size_t>(rows) + 1, 0);

  std::uint32_t prev_count = 0;
  std::uint32_t base = 0;  // index of this row's first run
  for (std::uint32_t i = 0; i < rows; ++i) {
    row_first_[i] = base;
    load_row(i);
    const std::uint32_t count = extract_runs();
    for (std::uint32_t c = 0; c < count; ++c) run_[base + c] = base + c;
    if (i > 0) {
      const std::uint32_t prev_base = row_first_[i - 1];
      const std::uint8_t* row =
          pixels_.data() + static_cast<std::size_t>(i) * cols;
      const RowRuns above{std::span(prev_starts_).first(prev_count),
                          std::span(prev_ends_).first(prev_count), row - cols};
      const RowRuns runs{std::span(starts_).first(count),
                         std::span(ends_).first(count), row};
      // Union by smaller index, keeping the current run's root at hand.
      std::uint32_t current = count;
      std::uint32_t root = 0;
      for_each_touching(above, runs, conn, rule,
                        [&](std::uint32_t c, std::uint32_t j) {
                          if (c != current) {
                            current = c;
                            root = base + c;
                          }
                          const std::uint32_t other =
                              find_root(run_, prev_base + j);
                          if (other < root) {
                            run_[root] = other;
                            root = other;
                          } else if (root < other) {
                            run_[other] = root;
                          }
                        });
    }
    starts_.swap(prev_starts_);
    ends_.swap(prev_ends_);
    prev_count = count;
    base += count;
  }
  row_first_[rows] = base;
}

void TileRuns::detach() {
  const auto table = run_.first(run_count());
  own_runs_.assign(table.begin(), table.end());
  run_ = own_runs_;
}

RowRuns TileRuns::row_runs(std::uint32_t i) {
  load_row(i);
  const std::uint32_t count = extract_runs();
  return RowRuns{std::span(starts_).first(count), std::span(ends_).first(count),
                 pixels_.data() + static_cast<std::size_t>(i) * cols_};
}

void TileRuns::fill_border(std::span<std::uint32_t> labels) {
  if (rows_ == 0 || cols_ == 0) return;
  const auto identity = [](std::uint32_t label) { return label; };
  fill(labels, 0, 1, identity);
  if (rows_ > 1) fill(labels, rows_ - 1, rows_, identity);
  for (std::uint32_t i = 1; i + 1 < rows_; ++i) {
    // A foreground first (last) pixel belongs to the row's first (last) run.
    const std::size_t west = static_cast<std::size_t>(i) * cols_;
    const std::size_t east = west + cols_ - 1;
    labels[west] = pixels_[west] != 0 ? run_[row_first_[i]] : 0;
    labels[east] = pixels_[east] != 0 ? run_[row_first_[i + 1] - 1] : 0;
  }
}

void TileRuns::load_row(std::uint32_t i) {
  const std::uint8_t* row = pixels_.data() + static_cast<std::size_t>(i) * cols_;
  if (same_colour_) {
    row_masks<true>(row, cols_, start_bits_.data(), fg_bits_.data());
  } else {
    row_masks<false>(row, cols_, start_bits_.data(), fg_bits_.data());
  }
}

std::uint32_t TileRuns::extract_runs() {
  std::uint32_t n_starts = 0;
  std::uint32_t n_ends = 0;
  const std::size_t words = start_bits_.size() - 1;
  for (std::size_t w = 0; w < words; ++w) {
    const auto base = static_cast<std::uint32_t>(w * 64);
    const std::uint64_t f = fg_bits_[w];
    std::uint64_t s = start_bits_[w];
    // A run ends where the next pixel is not a continuation of it:
    // background, or the start of another run (the sentinel word is 0).
    const std::uint64_t f_next = (f >> 1) | (fg_bits_[w + 1] << 63);
    const std::uint64_t s_next = (s >> 1) | (start_bits_[w + 1] << 63);
    std::uint64_t e = f & ~(f_next & ~s_next);
    while (s != 0) {
      starts_[n_starts++] = base + static_cast<std::uint32_t>(std::countr_zero(s));
      s &= s - 1;
    }
    while (e != 0) {
      ends_[n_ends++] = base + static_cast<std::uint32_t>(std::countr_zero(e));
      e &= e - 1;
    }
  }
  HISTCC_ASSERT(n_starts == n_ends);
  return n_starts;
}

void TileRuns::fill_row(std::uint32_t* out) const {
  const std::uint32_t* lab = row_labels_.data();
  std::uint32_t run = 0;  // runs started so far in this row
  for (std::uint32_t base = 0, w = 0; base < cols_; base += 64, ++w) {
    const std::uint32_t len = std::min<std::uint32_t>(64, cols_ - base);
    const std::uint64_t s = start_bits_[w];
    const std::uint64_t f = fg_bits_[w];
    std::uint32_t* dst = out + base;
    if (s == 0 && (f == 0 || f == low_bits(len))) {  // one value throughout
      std::fill_n(dst, len, f == 0 ? 0u : lab[run]);
      continue;
    }
    // Branch-free per pixel: count the run starts, mask out background.
    std::uint64_t s_bits = s;
    std::uint64_t f_bits = f;
    for (std::uint32_t k = 0; k < len; ++k, s_bits >>= 1, f_bits >>= 1) {
      run += static_cast<std::uint32_t>(s_bits & 1u);
      dst[k] = lab[run] & (0u - static_cast<std::uint32_t>(f_bits & 1u));
    }
  }
}

img::LabelImage label_components_unionfind(const img::GreyImage& image,
                                           Connectivity conn,
                                           ColourRule rule) {
  img::require_labelable(image.height(), image.width());
  img::LabelImage labels(image.height(), image.width());
  const std::uint32_t width = image.width();
  label_tile(
      image.pixels(), labels.pixels(), image.height(), width, conn, rule,
      [width](std::uint32_t i, std::uint32_t j) { return i * width + j + 1; });
  return labels;
}

}  // namespace histcc::ccseq
