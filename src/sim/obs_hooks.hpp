// Observability glue for the simulators: translates em-layer model cost
// (IoStats deltas) into obs-layer spans and registry entries.
//
// ObsPhase is the simulators' phase bracket.  It subsumes the old
// snapshot()/account() lambda pair: construction captures the disk array's
// IoStats, destruction accumulates the delta into the given PhaseIo slot
// AND — when a recorder is attached — into an obs::PhaseSpan, which pairs
// the model cost with the phase's wall-clock duration.  With no recorder
// and no slot the destructor does nothing; with no recorder it reduces to
// exactly the accounting the simulators always did, so default-config runs
// stay byte-identical.
//
// Being RAII, the delta is charged even when the phase unwinds with an
// exception (retry-budget exhaustion mid-phase).  That keeps phase_io
// consistent with total_io, which likewise counts I/O from abandoned
// superstep attempts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "em/disk_array.hpp"
#include "em/io_stats.hpp"
#include "obs/span.hpp"
#include "sim/sim_config.hpp"

namespace embsp::sim {

class ObsPhase {
 public:
  /// `slot` may be null (wall-clock-only phase, e.g. compute).  `tid`
  /// labels the trace track with the real-processor index.
  ObsPhase(obs::Recorder* rec, std::string_view name,
           const em::DiskArray& disks, em::IoStats* slot,
           std::uint32_t tid = 0)
      : disks_(&disks),
        slot_(slot),
        span_(rec, name, tid),
        track_cost_(slot != nullptr || rec != nullptr) {
    if (track_cost_) before_ = disks_->stats();
  }

  ObsPhase(const ObsPhase&) = delete;
  ObsPhase& operator=(const ObsPhase&) = delete;

  ~ObsPhase() {
    if (!track_cost_) return;
    const em::IoStats d = disks_->stats().since(before_);
    if (slot_ != nullptr) *slot_ += d;
    span_.add_cost(obs::CostDelta{d.parallel_ios, d.blocks_read,
                                  d.blocks_written, d.bytes_read,
                                  d.bytes_written});
  }

 private:
  const em::DiskArray* disks_;
  em::IoStats* slot_;
  obs::PhaseSpan span_;  // destructs after ~ObsPhase's body ran add_cost
  bool track_cost_;
  em::IoStats before_;
};

/// Mark one recovery rollback: counter + (if tracing) an instant event on
/// the rolling-back processor's track.
inline void record_rollback(obs::Recorder* rec, std::string_view unit,
                            std::uint32_t tid = 0) {
  if (rec == nullptr) return;
  std::string key("recovery.rollbacks.");
  key.append(unit);
  rec->registry.add(key);
  if (rec->trace_enabled) {
    rec->trace.instant(unit, "recovery", tid, obs::TraceWriter::now_ns());
  }
}

inline void export_routing_stats(obs::Registry& reg, const RoutingStats& rs) {
  reg.add("routing.blocks_total", rs.blocks_total);
  reg.add("routing.dummy_blocks", rs.dummy_blocks);
  reg.add("routing.step1_cycles", rs.step1_cycles);
  reg.add("routing.step2_cycles", rs.step2_cycles);
  reg.add("routing.distribute_cycles", rs.distribute_cycles);
  reg.set_gauge("routing.max_chain", static_cast<double>(rs.max_chain));
}

/// Mark one published checkpoint epoch: running count (a gauge, so the
/// abort/cancel flush paths see the live value without double-counting the
/// final export) plus size/latency histograms (wall-clock latency —
/// excluded from determinism guarantees, like every histogram).
inline void record_checkpoint(obs::Recorder* rec, std::uint64_t count,
                              std::size_t bytes, std::uint64_t latency_ns) {
  if (rec == nullptr) return;
  rec->registry.set_gauge("recovery.checkpoints", static_cast<double>(count));
  rec->registry.observe("checkpoint.bytes", static_cast<double>(bytes));
  rec->registry.observe("checkpoint.latency_ns",
                        static_cast<double>(latency_ns));
}

/// The per-disk recovery counters: retries, giveups and injected faults.
/// Each processor's share is additive, so shares exported into one
/// registry sum to the run-wide totals.
inline void export_io_recovery_stats(obs::Registry& reg,
                                     const RecoveryStats& rc) {
  reg.add("recovery.io_retries", rc.io_retries);
  reg.add("recovery.io_giveups", rc.io_giveups);
  reg.add("faults.injected.read_errors", rc.faults.read_errors);
  reg.add("faults.injected.write_errors", rc.faults.write_errors);
  reg.add("faults.injected.torn_writes", rc.faults.torn_writes);
  reg.add("faults.injected.bit_flips", rc.faults.bit_flips);
  reg.add("faults.injected.latency_spikes", rc.faults.latency_spikes);
  reg.add("faults.injected.dead_range_hits", rc.faults.dead_range_hits);
}

inline void export_recovery_stats(obs::Registry& reg,
                                  const RecoveryStats& rc) {
  export_io_recovery_stats(reg, rc);
  reg.add("recovery.superstep_rollbacks", rc.superstep_rollbacks);
  reg.add("recovery.reorganize_rollbacks", rc.reorganize_rollbacks);
  reg.set_gauge("recovery.checkpoints", static_cast<double>(rc.checkpoints));
  reg.set_gauge("recovery.resume_epoch",
                static_cast<double>(rc.resume_epoch));
}

}  // namespace embsp::sim
