#include "histcc/cc/replicated.hpp"

#include "histcc/bdm/primitives.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::cc {

img::LabelImage connected_components_replicated(splitc::Machine& machine,
                                                const img::GreyImage& image,
                                                ccseq::Connectivity conn,
                                                ccseq::ColourRule rule) {
  const std::uint32_t h = image.height();
  const std::uint32_t w = image.width();
  const std::uint32_t p = machine.nprocs();
  const std::size_t total = image.size();
  HISTCC_REQUIRE(total > 0, "image must be non-empty");
  img::require_labelable(h, w);

  // The whole image starts on processor 0 and is broadcast to everyone.
  // `broadcast` requires p | q, so the blocks are padded up to the next
  // multiple of p (the pad words are value-initialized and never read).
  const std::size_t padded = util::ceil_div(total, std::size_t{p}) * p;
  splitc::Spread<std::uint8_t> src(machine, padded, "img_src");
  splitc::Spread<std::uint8_t> replica(machine, padded, "img_replica");
  splitc::Spread<std::uint8_t> scratch(machine, padded, "img_scratch");
  std::copy(image.pixels().begin(), image.pixels().end(),
            src.block(0).begin());

  img::LabelImage result(h, w);
  machine.run([&](splitc::Proc& self) {
    bdm::broadcast(self, replica, src, scratch, padded);

    // Every processor labels the complete image — that is the point of
    // the baseline: the sequential work is fully replicated.
    std::vector<std::uint32_t> labels(total);
    ccseq::label_tile(
        replica.local(self), labels, h, w, conn, rule,
        [w](std::uint32_t i, std::uint32_t j) { return i * w + j + 1; });
    self.charge_ops(12 * total);  // same per-pixel labeling cost as
                                  // parallel_cc

    if (self.rank() == 0) {
      std::copy(labels.begin(), labels.end(), result.pixels().begin());
    }
  });
  return result;
}

}  // namespace histcc::cc
