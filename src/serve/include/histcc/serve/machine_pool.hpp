#ifndef HISTCC_SERVE_MACHINE_POOL_HPP
#define HISTCC_SERVE_MACHINE_POOL_HPP

/// \file machine_pool.hpp
/// A pool of persistent, reusable SPMD machines.
///
/// Every `Machine` keeps its p worker threads parked between runs, so
/// consecutive jobs on a slot pay a condition-variable wakeup instead of p
/// thread creations.  acquire(p) hands out an idle slot as a RAII lease,
/// preferring a slot that already holds a machine of the requested size.
/// Each slot keeps at most one warm machine per power-of-two width up to
/// `max_procs`, built on first use and never evicted — so under a
/// mixed-width job mix a slot serves every recurring width without
/// rebuilding.  machines_built() counts every construction, so tests and
/// benchmarks can assert that a steady workload stops building.  When
/// every slot is busy, acquire blocks — the pool is the concurrency
/// limiter; the bounded JobQueue in front of it is the memory limiter.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "histcc/splitc/machine.hpp"

namespace histcc::serve {

class MachinePool {
 public:
  /// \param slots         concurrently leasable machines (>= 1).
  /// \param max_procs     largest virtual-processor count a lease may ask
  ///                      for (power of two).
  /// \param spread_layout allocation mode every pooled machine is built
  ///                      with (packed by default; strided is the
  ///                      differential oracle).
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters): declaration-only;
  // the definition checks the two independently (no joint expression).
  MachinePool(std::uint32_t slots, std::uint32_t max_procs,
              splitc::SpreadLayout spread_layout =
                  splitc::SpreadLayout::kPacked);

  MachinePool(const MachinePool&) = delete;
  MachinePool& operator=(const MachinePool&) = delete;

  /// Exclusive use of one pooled machine; releases the slot on
  /// destruction.  Movable, not copyable.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          slot_(std::exchange(other.slot_, 0)),
          machine_(std::exchange(other.machine_, nullptr)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] splitc::Machine& machine() const noexcept {
      return *machine_;
    }

    /// Give the slot back early (idempotent; the destructor also does —
    /// and a moved-from lease is fully inert: no pool, slot, or machine).
    void release() noexcept;

   private:
    friend class MachinePool;
    Lease(MachinePool* pool, std::size_t slot,
          splitc::Machine* machine) noexcept
        : pool_(pool), slot_(slot), machine_(machine) {}

    MachinePool* pool_;
    std::size_t slot_;
    splitc::Machine* machine_;
  };

  /// Lease a warm machine with exactly `procs` virtual processors
  /// (a power of two <= max_procs), blocking until a slot is free.
  [[nodiscard]] Lease acquire(std::uint32_t procs);

  [[nodiscard]] std::uint32_t slots() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] std::uint32_t max_procs() const noexcept { return max_procs_; }
  /// Allocation mode pooled machines are built with.
  [[nodiscard]] splitc::SpreadLayout spread_layout() const noexcept {
    return spread_layout_;
  }

  /// Machines constructed so far.  A steady workload converges: once every
  /// slot holds the sizes the mix needs, this stops moving.
  [[nodiscard]] std::uint64_t machines_built() const;

  /// Slots not currently leased.
  [[nodiscard]] std::uint32_t idle() const;

 private:
  struct Slot {
    /// Warm machines indexed by log2(procs); null until first leased.
    std::vector<std::unique_ptr<splitc::Machine>> machines;
    bool busy = false;
  };

  void release_slot(std::size_t index) noexcept;

  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  std::vector<Slot> slots_;
  std::uint32_t max_procs_;
  splitc::SpreadLayout spread_layout_;
  std::uint64_t built_ = 0;
};

}  // namespace histcc::serve

#endif  // HISTCC_SERVE_MACHINE_POOL_HPP
