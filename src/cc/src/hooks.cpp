#include "histcc/cc/hooks.hpp"

#include "histcc/sortutil/radix.hpp"

namespace histcc::cc {

std::vector<std::uint32_t> tile_border_offsets(std::uint32_t rows,
                                               std::uint32_t cols) {
  std::vector<std::uint32_t> offsets;
  if (rows == 0 || cols == 0) return offsets;  // empty tile: no border
  if (rows == 1) {
    offsets.reserve(cols);
    for (std::uint32_t j = 0; j < cols; ++j) offsets.push_back(j);
    return offsets;
  }
  if (cols == 1) {
    offsets.reserve(rows);
    for (std::uint32_t i = 0; i < rows; ++i) offsets.push_back(i);
    return offsets;
  }
  offsets.reserve(2 * (static_cast<std::size_t>(rows) + cols) - 4);
  for (std::uint32_t j = 0; j < cols; ++j) offsets.push_back(j);  // top row
  for (std::uint32_t i = 1; i + 1 < rows; ++i) {
    offsets.push_back(i * cols);              // west column
    offsets.push_back(i * cols + cols - 1);   // east column
  }
  for (std::uint32_t j = 0; j < cols; ++j) {
    offsets.push_back((rows - 1) * cols + j);  // bottom row
  }
  return offsets;
}

std::vector<TileHook> make_tile_hooks(
    std::span<const std::uint8_t> pixels, std::span<const std::uint32_t> labels,
    std::span<const std::uint32_t> border_offsets) {
  // Step 1: collect (label, offset) for every coloured border pixel.
  std::vector<TileHook> hooks;
  for (const auto offset : border_offsets) {
    if (pixels[offset] != 0) {
      hooks.push_back(TileHook{labels[offset], offset});
    }
  }
  // Step 2: radix sort by label.
  sortutil::hybrid_sort_by(hooks, [](const TileHook& h) { return h.label; });
  // Step 3: keep one hook per label.
  std::size_t unique = 0;
  for (std::size_t i = 0; i < hooks.size(); ++i) {
    if (unique == 0 || hooks[unique - 1].label != hooks[i].label) {
      hooks[unique++] = hooks[i];
    }
  }
  hooks.resize(unique);
  return hooks;
}

void update_border_labels(std::span<std::uint32_t> labels,
                          std::span<const std::uint8_t> pixels,
                          std::span<const std::uint32_t> border_offsets,
                          std::span<const ChangePair> changes) {
  if (changes.empty()) return;
  for (const auto offset : border_offsets) {
    if (pixels[offset] == 0) continue;
    labels[offset] = apply_changes(changes, labels[offset]);
  }
}

void update_all_labels(std::span<std::uint32_t> labels,
                       std::span<const std::uint8_t> pixels,
                       std::span<const ChangePair> changes) {
  if (changes.empty()) return;
  // Labels come in runs along a row, so one lookup serves a whole run.
  std::uint32_t run_label = 0;
  std::uint32_t run_result = apply_changes(changes, 0);
  for (std::size_t idx = 0; idx < labels.size(); ++idx) {
    if (pixels[idx] == 0) continue;
    if (labels[idx] != run_label) {
      run_label = labels[idx];
      run_result = apply_changes(changes, run_label);
    }
    labels[idx] = run_result;
  }
}

void relabel_interior(std::span<std::uint32_t> labels,
                      std::span<const std::uint8_t> pixels,
                      std::span<const TileHook> hooks) {
  // Hooks are sorted by label, so the change table comes out alpha-sorted.
  std::vector<ChangePair> changes;
  for (const auto& hook : hooks) {
    const std::uint32_t current = labels[hook.offset];
    if (current != hook.label) {
      changes.push_back(ChangePair{hook.label, current});
    }
  }
  update_all_labels(labels, pixels, changes);
}

}  // namespace histcc::cc
