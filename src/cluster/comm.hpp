// In-process MPI-like communicator.
//
// The paper's cluster runs use MPI across Titan nodes: each node executes
// the four zonal steps on its raster partitions, then the master combines
// per-polygon histograms. This module reproduces that programming model
// in one process: run_cluster() launches one thread per rank; ranks talk
// through mailboxes with (source, tag) matching, and every byte a rank
// sends is accounted, so the communication volume of a run is measured
// the way an MPI implementation would serialize it.
//
// Fault model (service-grade additions):
//  * every blocking call is deadline-bounded -- the legacy throwing
//    overloads use ClusterOptions::default_timeout_ms and throw
//    TimeoutError instead of hanging; Status-returning overloads take an
//    explicit Deadline;
//  * the point-to-point layer retries with exponential backoff: a
//    message "dropped in transit" by a FaultPlan is recovered on retry,
//    modelling sender retransmission;
//  * a rank that exits (crash or exception) is marked dead; peers
//    blocked on it get StatusCode::kRankDead instead of deadlocking;
//  * a FaultPlan in ClusterOptions injects drop/duplicate/reorder/delay
//    per message and scripted crashes at checkpoints, deterministically
//    per seed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "cluster/fault.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace zh {

class Cluster;

/// Bounded retry with exponential backoff for point-to-point receives.
/// Each attempt waits up to the attempt budget, then asks the transport
/// to recover in-flight ("dropped") messages -- the in-process analog of
/// a sender retransmitting after an ack timeout.
struct RetryPolicy {
  std::uint32_t max_attempts = 4;
  std::int64_t initial_timeout_ms = 50;
  double backoff = 2.0;  ///< attempt budget multiplier (jitter off)
  /// Decorrelate retry slices across receivers: each re-attempt budget is
  /// a deterministic draw in [initial, 3 * previous] keyed by the fault
  /// seed and the (receiver, sender, tag, attempt) identity, so a mass
  /// timeout does not re-synchronize every waiter onto the same schedule
  /// (retry storms) yet replays stay bit-reproducible per seed. Off, the
  /// slices follow the plain `previous * backoff` ladder.
  bool jitter = true;
};

/// The decorrelated-jitter backoff draw used by Communicator::recv_bytes:
/// uniform in [base_ms, max(base_ms, 3 * prev_ms)], a pure splitmix64
/// function of its arguments (same seed => same schedule). Exposed for
/// tests pinning determinism and bounds.
[[nodiscard]] std::int64_t decorrelated_backoff_ms(std::uint64_t seed,
                                                   RankId receiver, RankId src,
                                                   int tag,
                                                   std::uint32_t attempt,
                                                   std::int64_t base_ms,
                                                   std::int64_t prev_ms);

/// Knobs of one run_cluster invocation.
struct ClusterOptions {
  FaultPlan faults;  ///< message/crash injection (empty = no faults)
  /// RankCrash thrown in a rank body kills only that rank (it goes
  /// silent; survivors keep running). Off: it propagates like any error.
  bool tolerate_rank_crash = false;
  /// Deadline applied by the legacy (non-Status) blocking overloads so
  /// no public call can block unboundedly.
  std::int64_t default_timeout_ms = 30000;
};

/// A message received by recv_any: payload plus provenance.
struct AnyMessage {
  RankId src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  /// Causal context stamped by the sender (flow_id == 0 when tracing
  /// was off at send time). The matching "f" flow event is recorded by
  /// recv_any itself; the context is surfaced for callers that want the
  /// sender's logical send timestamp or parent span.
  obs::TraceContext trace;
};

/// Per-rank handle used inside run_cluster bodies.
class Communicator {
 public:
  [[nodiscard]] RankId rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  /// Point-to-point send of raw bytes with a user tag (non-blocking:
  /// enqueues into the destination mailbox; never waits). When tracing
  /// is enabled, stamps a TraceContext into the message envelope (the
  /// in-process analog of a header field in the CRC'd wire frame;
  /// layout versioned by obs::kTraceContextVersion) and records the "s"
  /// half of the send->recv flow edge.
  void send_bytes(RankId dst, int tag, std::vector<std::byte> payload);

  /// Blocking receive of the next message from `src` with `tag`.
  /// Bounded by the cluster default timeout; throws TimeoutError on
  /// expiry and Error if `src` died with no matching message in flight.
  [[nodiscard]] std::vector<std::byte> recv_bytes(RankId src, int tag);

  /// Deadline-bounded receive with retransmission recovery. Returns
  /// kTimeout when the deadline (or retry budget) expires and kRankDead
  /// when `src` is dead with nothing recoverable in flight.
  [[nodiscard]] Status recv_bytes(RankId src, int tag, Deadline deadline,
                                  std::vector<std::byte>& out,
                                  const RetryPolicy& retry = {});

  /// Receive the next visible message from any source whose tag is in
  /// `tags` (master-side supervision loop). No retransmission recovery;
  /// returns kTimeout on deadline expiry.
  [[nodiscard]] Status recv_any(std::span<const int> tags, Deadline deadline,
                                AnyMessage& out);

  /// Trigger retransmission of messages from `src` with `tag` that were
  /// dropped in transit (fault injection). Returns how many were
  /// recovered into the mailbox. Supervision loops using recv_any call
  /// this periodically; recv_bytes' retry path calls it automatically.
  std::size_t recover_lost(RankId src, int tag);

  /// Typed send/recv of trivially copyable element spans.
  template <typename T>
  void send(RankId dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(data.size_bytes());
    // Empty sends are legal protocol messages (e.g. the "done"
    // assignment); memcpy's pointers must be non-null even for n == 0.
    if (!data.empty()) {
      std::memcpy(bytes.data(), data.data(), data.size_bytes());
    }
    send_bytes(dst, tag, std::move(bytes));
  }

  template <typename T>
  [[nodiscard]] Status recv(RankId src, int tag, Deadline deadline,
                            std::vector<T>& out,
                            const RetryPolicy& retry = {}) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes;
    if (Status s = recv_bytes(src, tag, deadline, bytes, retry);
        !s.is_ok()) {
      return s;
    }
    if (bytes.size() % sizeof(T) != 0) {
      return Status::error(
          StatusCode::kCorrupt,
          detail::format_parts(
              "rank ", rank_, ": message from rank ", src, " tag ", tag,
              " has ", bytes.size(), " bytes, not a multiple of element size ",
              sizeof(T)));
    }
    out.resize(bytes.size() / sizeof(T));
    if (!bytes.empty()) {
      std::memcpy(out.data(), bytes.data(), bytes.size());
    }
    return Status::ok();
  }

  template <typename T>
  [[nodiscard]] std::vector<T> recv(RankId src, int tag) {
    std::vector<T> out;
    recv(src, tag, default_deadline(), out).throw_if_error();
    return out;
  }

  /// Synchronize all ranks, bounded by `deadline`. Returns kRankDead if
  /// any rank died (the barrier can then never complete) and kTimeout on
  /// expiry; a timed-out rank withdraws and may retry.
  [[nodiscard]] Status barrier(Deadline deadline);

  /// Synchronize all ranks (cluster default timeout; throws on failure).
  void barrier();

  /// Whether `r` has exited (crash or completion). Dead ranks never send
  /// again; pending in-flight messages remain receivable.
  [[nodiscard]] bool rank_dead(RankId r) const;

  /// Visit a named crash checkpoint: throws RankCrash when the cluster's
  /// FaultPlan scripts this rank to die at this visit. No-op otherwise.
  void checkpoint(CrashPoint point);

  /// Bytes this rank has sent so far (communication-volume accounting).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Receive retries this rank has performed (backoff re-attempts in the
  /// Status recv path, including retransmission recovery rounds).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }

  /// Reserved for the clock-offset handshake run_cluster performs at
  /// rank startup when tracing is enabled (probe r->0 and reply 0->r
  /// both use it; direction disambiguates).
  static constexpr int kClockTag = -3;

 private:
  friend class Cluster;
  Communicator(Cluster* cluster, RankId rank)
      : cluster_(cluster), rank_(rank) {}

  [[nodiscard]] Deadline default_deadline() const;

  Cluster* cluster_;
  RankId rank_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t retries_ = 0;
};

/// Launch `ranks` threads, each running body(comm). Returns when all
/// ranks finish; rethrows the first rank exception. A rank that exits is
/// marked dead so peers blocked on it fail fast instead of deadlocking.
/// When tracing is enabled, each worker rank runs a short NTP-style
/// clock handshake against rank 0 before body() starts (min-RTT sample
/// of a few probes on kClockTag) and records its offset via
/// obs::set_rank_clock_offset_us; a failed/timed-out handshake leaves
/// the offset at 0 rather than delaying the run.
void run_cluster(std::size_t ranks,
                 const std::function<void(Communicator&)>& body);

/// As above with explicit options (fault injection, crash tolerance,
/// default timeout).
void run_cluster(std::size_t ranks, const ClusterOptions& options,
                 const std::function<void(Communicator&)>& body);

}  // namespace zh
