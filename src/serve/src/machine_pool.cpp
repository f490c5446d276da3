#include "histcc/serve/machine_pool.hpp"

#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::serve {

MachinePool::MachinePool(std::uint32_t slots, std::uint32_t max_procs,
                         splitc::SpreadLayout spread_layout)
    : slots_(slots), max_procs_(max_procs), spread_layout_(spread_layout) {
  HISTCC_REQUIRE(slots >= 1, "pool needs at least one slot");
  HISTCC_REQUIRE(max_procs >= 1 && util::is_pow2(max_procs),
                 "max_procs must be a power of two");
  for (Slot& slot : slots_) {
    slot.machines.resize(util::log2_exact(max_procs) + 1);
  }
}

MachinePool::Lease MachinePool::acquire(std::uint32_t procs) {
  HISTCC_REQUIRE(procs >= 1 && util::is_pow2(procs) && procs <= max_procs_,
                 "lease size must be a power of two within max_procs");
  const unsigned width = util::log2_exact(procs);
  std::unique_lock lock(mutex_);
  for (;;) {
    // Best idle slot: one already holding a machine of this width, else
    // the first idle one.
    std::size_t chosen = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].busy) continue;
      if (slots_[i].machines[width]) {
        chosen = i;
        break;
      }
      if (chosen == slots_.size()) chosen = i;
    }
    if (chosen < slots_.size()) {
      Slot& slot = slots_[chosen];
      auto& machine = slot.machines[width];
      if (!machine) {
        machine = std::make_unique<splitc::Machine>(procs);
        machine->set_spread_layout(spread_layout_);
        built_ += 1;
      }
      slot.busy = true;
      return Lease(this, chosen, machine.get());
    }
    slot_free_.wait(lock);
  }
}

void MachinePool::release_slot(std::size_t index) noexcept {
  {
    std::scoped_lock lock(mutex_);
    slots_[index].busy = false;
  }
  slot_free_.notify_one();
}

void MachinePool::Lease::release() noexcept {
  if (pool_ == nullptr) return;
  pool_->release_slot(slot_);
  pool_ = nullptr;
  machine_ = nullptr;
}

std::uint64_t MachinePool::machines_built() const {
  std::scoped_lock lock(mutex_);
  return built_;
}

std::uint32_t MachinePool::idle() const {
  std::scoped_lock lock(mutex_);
  std::uint32_t n = 0;
  for (const Slot& slot : slots_) n += slot.busy ? 0u : 1u;
  return n;
}

}  // namespace histcc::serve
